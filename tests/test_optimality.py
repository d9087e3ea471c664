"""Universal-optimality conditions, E/A-values, and the balanced
incomplete block design identities."""

from fractions import Fraction

import numpy as np
import pytest

from orthoplan import (
    BLOCK,
    Factor,
    Plan,
    a_value,
    bibd_check,
    construct_potb2,
    contrast_c_matrix,
    e_value,
    incidence,
    ratmat,
    universal_ledger,
)
from orthoplan import optimality, orthogonality, plan as plan_module
from orthoplan.errors import VerificationFailed


def conditions(plan, name):
    """The ledger entry of one factor."""
    return next(f for f in universal_ledger(plan).factors if f.factor == name)


# ---------------------------------------------------------------------------
# per-factor conditions

def test_three_level_seed_all_conditions_hold(potb33):
    for name in potb33.factor_names:
        cond = conditions(potb33, name)
        assert cond.passed
        assert cond.block_counts == ((2, 1, 1), (2, 1, 1), (0, 1, 1))
        assert cond.t_floor == (1, 1, 0)
        assert cond.a == 3 and cond.b == -1


def test_two_level_seed_last_factor_fails_count(potb27):
    cond = conditions(potb27, "A7")
    assert not cond.count_pass and not cond.passed
    assert cond.block_counts == ((4, 1), (3, 2))
    assert cond.t_floor == (2, 2)
    assert cond.orth_pass and cond.scalar_pass
    assert cond.a == 4 and cond.b == -2


def test_factor_conditions_json(potb33):
    doc = conditions(potb33, "A1").to_json()
    assert doc["pass"] is True
    assert doc["count_condition"]["floor"] == [1, 1, 0]
    assert doc["scalar_form"] == {"pass": True, "a": "3", "b": "-1"}


def test_conditions_need_blocks(potp34):
    with pytest.raises(ValueError, match="the per-factor conditions are about blocked plans"):
        universal_ledger(potp34)


# ---------------------------------------------------------------------------
# global scalar identity and the ledger

def test_global_identity(potb27, potb33, ico26):
    assert contrast_c_matrix(potb27).scalar_identity() == (True, 4)
    assert contrast_c_matrix(potb33).scalar_identity() == (True, 3)
    assert contrast_c_matrix(ico26).scalar_identity() == (False, None)


def test_ledger(potb33):
    led = universal_ledger(potb33)
    assert led.global_pass and led.global_a == 3
    assert all(f.passed for f in led.factors)
    assert led.mu0 == pytest.approx(3, abs=1e-9)
    assert led.mu1 == pytest.approx(3, abs=1e-9)
    doc = led.to_json()
    assert doc["plan"] == "potb_3_3" and doc["global"]["a"] == "3"
    assert len(doc["spectrum"]) == 6


def test_ledger_asym(asym7):
    led = universal_ledger(asym7)
    # level balance holds everywhere; the pairwise condition fails because
    # of the extended factor, and the global identity does not hold
    assert all(f.count_pass for f in led.factors)
    assert not any(f.orth_pass for f in led.factors)
    assert not led.global_pass
    for f in led.factors[:3]:
        assert f.scalar_pass and f.a == Fraction(315, 46) and f.b == Fraction(-45, 46)


def test_ledger_of_uncoupled_factors_needs_no_solve(monkeypatch, ico26):
    # every factor pair of a potb2 plan is orthogonal through the block, so
    # each C_A is a diagonal slice of X'(I - P_block)X, and forming that
    # matrix is the ledger's one Schur complement; ico_2_6 has coupled pairs
    calls = []
    schur_complement = ratmat.schur_complement

    def counted(*args, **kwargs):
        calls.append(args)
        return schur_complement(*args, **kwargs)

    potb = construct_potb2(4)
    monkeypatch.setattr(ratmat, "schur_complement", counted)
    universal_ledger(potb)
    assert len(calls) == 1
    calls.clear()
    universal_ledger(ico26)
    assert len(calls) > 1


def test_ledger_counts_the_level_by_block_tables_once(record_calls, potb2_28):
    # every factor's L_A is a slice of one gram over the block and the
    # factors (``incidence`` would count one gram per factor)
    c_con = contrast_c_matrix(potb2_28)
    calls = record_calls(orthogonality, "gram", record_calls(plan_module, "gram"))
    ledger = optimality._ledger(potb2_28, c_con)
    assert [idents for _, idents in calls] == [("block",) + potb2_28.factor_names]
    assert ledger == universal_ledger(potb2_28)
    for f in ledger.factors:
        l_a = incidence(potb2_28, f.factor, BLOCK)
        assert f.block_counts == tuple(tuple(col) for col in l_a.T.tolist())


def test_ledger_checks_that_each_c_a_sums_to_zero(monkeypatch, potb27):
    # b = -a / s_A is derived from C_A 1 = 0, which holds because the rows of
    # M = X'(I - P_block)X sum to zero over each factor's columns; H drops
    # that part of M, so an M with one nonzero row sum must fail where the
    # contrast C-matrix is formed, not print that b.  M + e_0 e_0' / d stays
    # symmetric and positive semidefinite
    information = orthogonality._information

    def patched(*args):
        num, d = information(*args)
        num = num.copy()
        num[0, 0] += 1
        return num, d

    monkeypatch.setattr(orthogonality, "_information", patched)
    with pytest.raises(VerificationFailed, match=r"^M 1_A = 0 for every factor A does not hold$"):
        universal_ledger(potb27)


@pytest.mark.parametrize("plan", ["potb2_28", "asym7"])
def test_ledger_makes_no_fraction_matrix(record_calls, request, plan):
    # the a I + b J fit reads each C_A as its integer pair; only the
    # printed a and b are Fractions
    plan = request.getfixturevalue(plan)
    calls = record_calls(ratmat, "_over")
    universal_ledger(plan).to_json()
    assert calls == []


# ---------------------------------------------------------------------------
# spectrum summaries

def test_e_value(potb27, ico26):
    assert e_value(potb27) == pytest.approx(4, abs=1e-9)
    assert e_value(ico26) == pytest.approx(4, abs=1e-9)


def test_a_value(potb27, ico26):
    assert a_value(potb27) == pytest.approx(7 / 4, abs=1e-9)
    assert a_value(ico26) == pytest.approx(21 / 16, abs=1e-9)


def test_spectrum_interchanged(ico26):
    values = contrast_c_matrix(ico26).eigenvalues()
    assert values == pytest.approx([4, 4, 4, 4, 6.4, 6.4], abs=1e-9)


def test_a_value_singular():
    # a factor constant within each block carries no intrablock information
    p = Plan("confounded", (Factor("A", 2),), ((0,), (0,), (1,), (1,)),
             block_sizes=(2, 2))
    with pytest.raises(ValueError, match="singular"):
        a_value(p)
    assert e_value(p) == pytest.approx(0.0, abs=1e-12)


def test_e_value_single_contrast():
    p = Plan("one", (Factor("A", 2),), ((0,), (1,)))
    assert e_value(p) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# block design identities

def test_bibd_all_ones():
    assert bibd_check(np.ones((3, 3), dtype=object), v=3, b=3, r=3, k=3, lam=3)


def test_bibd_cyclic():
    l_mat = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=object)
    assert bibd_check(l_mat, v=3, b=3, r=2, k=2, lam=1)


def test_bibd_shape_mismatch():
    with pytest.raises(ValueError, match=r"incidence is \(3, 3\), expected \(3, 4\)"):
        bibd_check(np.ones((3, 3), dtype=object), v=3, b=4, r=3, k=3, lam=3)


def circulant(offsets, n=7):
    return np.array([[int((j - i) % n in offsets) for j in range(n)] for i in range(n)],
                    dtype=object)


def test_bibd_fano_difference_set():
    assert bibd_check(circulant({1, 2, 4}), v=7, b=7, r=3, k=3, lam=1)


def test_bibd_rejections():
    l_mat = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=object)
    # counting identities violated
    assert not bibd_check(l_mat, v=3, b=3, r=2, k=2, lam=2)
    assert not bibd_check(np.ones((3, 3), dtype=object), v=3, b=3, r=2, k=3, lam=3)
    # row sums off
    broken = l_mat.copy()
    broken[0, 2] = Fraction(1)
    assert not bibd_check(broken, v=3, b=3, r=2, k=2, lam=1)
    # row and column sums fine, but concurrences unbalanced
    assert not bibd_check(circulant({0, 1, 2}), v=7, b=7, r=3, k=3, lam=1)


def test_bibd_needs_integer_entries():
    # the cyclic (3, 3, 2, 2, 1) incidence times a rational rotation about
    # the all-ones vector: every sum and L L' = I + J still hold
    third = Fraction(1, 3)
    l_mat = np.array([[4 * third, third, third],
                      [third, third, 4 * third],
                      [third, 4 * third, third]], dtype=object)
    assert not bibd_check(l_mat, v=3, b=3, r=2, k=2, lam=1)
    assert bibd_check(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=np.int64),
                      v=3, b=3, r=2, k=2, lam=1)
