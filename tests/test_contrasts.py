"""Helmert contrast bases and the exact C-matrix representation."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from oracles import helmert_raw, orthonormal_contrasts

from orthoplan import ContrastMatrix, contrasts, is_potb, ratmat
from orthoplan.contrasts import _helmert, helmert_norms


@pytest.mark.parametrize("s", [2, 3, 4, 7])
def test_helmert_raw_structure(s):
    """The oracle rows are orthogonal with zero sums; the package applies
    them by prefix sums and reads their squared norms off ``helmert_norms``."""
    raw = helmert_raw(s)
    assert raw.shape == (s - 1, s)
    assert all(sum(row) == 0 for row in raw)
    gram = raw @ raw.T
    norms = helmert_norms(s)
    for i in range(s - 1):
        for j in range(s - 1):
            assert gram[i, j] == (norms[i] if i == j else 0)
    x = np.array(np.random.default_rng(s).integers(-50, 51, size=(s, 4)).tolist(), dtype=object)
    assert (_helmert(x) == raw @ x).all()


def test_helmert_raw_needs_two_levels():
    with pytest.raises(ValueError):
        helmert_raw(1)


@pytest.mark.parametrize("s", [2, 3, 5])
def test_orthonormal_rows(s):
    o = orthonormal_contrasts(s)
    assert np.abs(o @ o.T - np.eye(s - 1)).max() < 1e-12
    assert np.abs(o.sum(axis=1)).max() < 1e-12


def scalar_cm(value, s=3):
    """ContrastMatrix of value * I: the congruence H (value I) H' of the
    integer Helmert rows H is value diag(n_i), held as (num, d)."""
    value = Fraction(value)
    raw = helmert_raw(s)
    return ContrastMatrix(raw @ raw.T * value.numerator, value.denominator, helmert_norms(s))


def pair_cm(num, d, norms):
    """ContrastMatrix of the 2 x 2 integer congruence num / d over rows of
    squared norms ``norms``."""
    return ContrastMatrix(np.array(num, dtype=object), d, norms)


def test_scalar_identity():
    cm = scalar_cm(Fraction(7, 2))
    ok, val = cm.scalar_identity()
    assert ok and val == Fraction(7, 2)
    assert cm.dim == 2


def test_entry_exact_and_equals_rational():
    """Every entry of 2 I is exact and printed as the expected rational;
    off the diagonal, a reduced pair prints as 'p/q'."""
    assert scalar_cm(2).entries_json() == [["2", "0"], ["0", "2"]]
    # entries num / (d sqrt(n_i n_j)) with n = (2, 8): sqrt(16) = 4
    cm = pair_cm([[3, 6], [6, 4]], 3, (2, 8))
    assert cm.entries_json() == [["1/2", "1/2"], ["1/2", "1/6"]]
    assert cm.scalar_identity() == (False, None)


def test_entry_exact_irrational_is_none():
    # congruence with distinct norms: entry 1/sqrt(2*6) is irrational
    cm = pair_cm([[1, 0], [0, 1]], 1, (2, 6))
    assert cm.entries_json()[0][1] == "0"           # zero stays exact
    cm2 = pair_cm([[1, 1], [1, 1]], 1, (2, 6))
    assert "0.2886" in cm2.entries_json()[0][1]


def test_as_float_and_eigenvalues():
    cm = scalar_cm(3)
    assert np.abs(cm._float - 3 * np.eye(2)).max() < 1e-12
    assert cm.eigenvalues() == pytest.approx([3.0, 3.0])


def test_one_decomposition_per_instance(record_calls):
    """The spectrum is formed once per instance; a copy is handed out."""
    calls = record_calls(contrasts, "checked_eigenvalues")
    cm = pair_cm([[2, 1], [1, 2]], 1, (2, 2))
    first = cm.eigenvalues()
    first.append(0.0)
    assert cm.eigenvalues() == pytest.approx([0.5, 1.5])
    assert len(calls) == 1
    assert cm.entries_json() == [["1", "1/2"], ["1/2", "1"]]
    assert replace(cm, num=cm.num * 2).eigenvalues() == pytest.approx([1.0, 3.0])
    assert len(calls) == 2


def test_scaled():
    """A matrix times a rational is the same pair with num and d rescaled."""
    cm = scalar_cm(3)
    ok, val = replace(cm, d=cm.d * 3).scalar_identity()
    assert ok and val == 1


def test_shape_mismatch():
    with pytest.raises(ValueError, match="num / norms sizes disagree"):
        ContrastMatrix(np.array([[1, 0], [0, 1]], dtype=object), 1, (2,))


def test_potb_report_makes_no_fractions(potb2_28, record_calls):
    """The report's contrast C-matrix stays an integer pair up to its
    printed text: no Fraction matrix is formed for a passing report."""
    calls = record_calls(ratmat, "_over")
    is_potb(potb2_28).to_json()
    assert calls == []
